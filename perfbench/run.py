"""rhocalc benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its
``src/``.  Workloads: ``cli_oneshot``, ``exact_sweep``, ``verify_float``
(see ``workloads.py`` and ``BENCHMARK.json``).

``--trace 0`` measures the end-to-end metrics.  The workload is set up
``SETUP_REPEATS`` times, each in a fresh interpreter, and ``setup_s`` is
the median wall time from launching the interpreter to its ``READY``
line (import, seeded inputs, warm-up).  The last of those interpreters
then runs the closed loop for ``--seconds``; each operation counts at the
best time its input had in the run (see ``worker.best_times``).

``--trace 1`` runs every workload once more with spans around each call
into a layer and prints the per-layer metrics, prefixed by workload.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with exactly the metrics ``BENCHMARK.json`` lists for the mode.  The
line before it, starting with ``#``, holds the details: error rate,
tail percentile and sample count, known-defect count, failure notes and
the environment.  ``failed`` counts operations that gave a wrong value,
an exception, a traceback or an unexpected exit code, except the
huge-entry CLI inputs, a known defect counted apart in ``known_defect``
and in ``error_rate``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli_oneshot", "exact_sweep", "verify_float")
SETUP_REPEATS = 3
#: a worker that has not finished this long after its deadline is stuck
GRACE_S = 120

class BenchError(RuntimeError):
    pass


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _version(module: str) -> str:
    if importlib.util.find_spec(module) is None:
        return "absent"
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}; print({module}.__version__)"],
        capture_output=True, text=True, timeout=60,
    )
    return out.stdout.strip() or "unimportable"


def environment(seed: int) -> Dict:
    """Recorded once per result: what produced these numbers."""
    # a checkout that is not a repository must not report an enclosing one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
    }


def _worker(workload: str, seed: int, seconds: float, mode: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--mode", mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen, timeout: float) -> Dict:
    """Wait for a worker and return its RESULT payload (or {} in setup mode)."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    results = [line for line in out.splitlines() if line.startswith("RESULT ")]
    return json.loads(results[-1][len("RESULT "):]) if results else {}


def _launch(workload: str, seed: int, seconds: float, mode: str) -> Tuple[float, subprocess.Popen]:
    """Start a worker; return the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = _worker(workload, seed, seconds, mode)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit {proc.wait()})")
    return ready, proc


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload; return the result line's fields and the details."""
    if trace:
        _, proc = _launch(workload, seed, seconds, "trace")
        res = _finish(proc, 3 * seconds + GRACE_S)
        metrics = res["metrics"]
        detail: Dict = {}
    else:
        setups: List[float] = []
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            ready, proc = _launch(workload, seed, seconds, "run" if last else "setup")
            setups.append(ready)
            res = _finish(proc, seconds + GRACE_S)
        metrics = dict(res["metrics"], setup_s=statistics.median(setups))
        detail = {k: v for k, v in res.items() if k != "metrics"}
        detail["setup_runs_s"] = setups
        detail["error_rate"] = metrics["error_rate"]
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def select(metrics: Dict[str, float], wanted: List[Dict]) -> Dict:
    """The metrics BENCHMARK.json lists, each with its unit."""
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "rhocalc", "__init__.py")):
        print(f"perfbench: no rhocalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = select(result["metrics"], wanted)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    detail = dict(result["detail"], workload=args.workload, trace=args.trace,
                  environment=environment(args.seed))
    print("# " + json.dumps(detail, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
