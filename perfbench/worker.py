"""One fresh interpreter of the benchmark: set up a workload, then run it.

Started by ``run.py``; not meant to be run by hand.  It imports the
package from ``src/`` of the checkout it sits in, makes the seeded
inputs, warms up, and prints ``READY`` -- the moment the first timed
operation may start, which ``run.py`` uses for ``setup_s``.

Modes:

* ``setup`` -- exit right after ``READY``;
* ``run``   -- run the closed loop for ``--seconds`` untraced and print one
  ``RESULT {json}`` line;
* ``trace`` -- for every workload, run its operations untraced, replay the
  same operations traced, and print one ``RESULT {json}`` line of
  per-layer metrics; the spans are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from itertools import cycle
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

WORKLOADS = ("cli_oneshot", "exact_sweep", "verify_float")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: repeats of each import-time probe in the traced run
PROBE_REPEATS = 3


def load_package() -> SimpleNamespace:
    """Import rhocalc from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rhocalc", "__init__.py")):
        raise SystemExit(f"perfbench: no rhocalc sources under {src}")
    sys.path.insert(0, src)
    import rhocalc
    from rhocalc import analytic, bernoulli, cli, dedekind, moduli, rho, sl2z

    if not os.path.realpath(rhocalc.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported rhocalc from {rhocalc.__file__}, not {src}")
    return SimpleNamespace(
        analytic=analytic, bernoulli=bernoulli, cli=cli, dedekind=dedekind,
        moduli=moduli, rho=rho, sl2z=sl2z,
    )


def run_op(wl, op, tracer) -> "workloads.Outcome":
    try:
        return wl.run(op, tracer)
    except Exception as exc:  # noqa: BLE001 -- a raised error is a failed operation
        return workloads.Outcome(False, note=f"{type(exc).__name__}: {exc}"[:200])


def closed_loop(wl, rounds: List[List], seconds: float, tracer, limit: int = 0) -> Dict:
    """Run the rounds (cycled) one operation after another until ``seconds``
    have passed, or ``limit`` operations when it is set.

    Each latency is kept with its input's key, (round, position).  Besides
    the totals, it keeps the operation and value counts at the end of the
    last complete round, so that rates can be taken over whole rounds,
    whose mix of inputs is fixed.
    """
    latencies: List[float] = []
    keys: List[Tuple[int, int]] = []
    done: List = []
    values = failed = known = 0
    whole = {"ops": 0, "values": 0}
    notes: List[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    now = start
    for r, rnd in cycle(enumerate(rounds)):
        for i, op in enumerate(rnd):
            t0 = time.perf_counter()
            out = run_op(wl, op, tracer)
            now = time.perf_counter()
            latencies.append(now - t0)
            keys.append((r, i))
            done.append(op)
            if out.ok:
                values += out.values
            elif out.known_defect:
                known += 1
            else:
                failed += 1
                if len(notes) < 5:
                    notes.append(out.note)
            if (limit and len(done) >= limit) or (not limit and now >= deadline):
                break
        else:
            whole = {"ops": len(done), "values": values}
            continue
        break
    return {
        "elapsed": now - start, "latencies": latencies, "keys": keys, "ops": done, "whole": whole,
        "values": values, "failed": failed, "known_defect": known, "notes": notes,
    }


def best_times(loop: Dict) -> List[float]:
    """Each operation's latency replaced by the best latency of its input
    over the run.

    The host is shared, and other tenants only ever add time, in spells
    of seconds to minutes; an input that recurs across the run is likely
    timed once in a quieter spell, so its best time is the closest to the
    program's own cost.  The list keeps one entry per operation run, so
    every input weighs as often as it ran.
    """
    best: Dict[Tuple[int, int], float] = {}
    for key, t in zip(loop["keys"], loop["latencies"]):
        best[key] = min(t, best.get(key, t))
    return [best[key] for key in loop["keys"]]


def summarize(loop: Dict, children: bool) -> Dict:
    """End-to-end metrics of one untraced closed loop, from best times."""
    times = best_times(loop)
    # rates over whole rounds; over everything if not one round finished
    rate = loop["whole"] if loop["whole"]["ops"] else {"ops": len(times), "values": loop["values"]}
    busy = sum(times[: rate["ops"]])
    lat = sorted(times)
    n = len(lat)
    tail_rank = max(n - 11, 0)  # ten samples above it
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:  # children run one at a time, so this bounds the joint peak
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted_failed = loop["failed"] + loop["known_defect"]
    runs_per_input = Counter(loop["keys"]).values()
    return {
        "attempted": n,
        "failed": loop["failed"],
        "known_defect": loop["known_defect"],
        "notes": loop["notes"],
        "metrics": {
            "op_latency_p50_s": statistics.median(lat),
            "op_latency_tail_s": lat[tail_rank],
            "ops_per_s": rate["ops"] / busy,
            "values_per_s": rate["values"] / busy,
            "error_rate": attempted_failed / n,
            "peak_rss_mb": usage / 1024.0,
        },
        "tail_percentile": 100.0 * tail_rank / n,
        "tail_samples_above": n - 1 - tail_rank,
        "samples": n,
        "runs_per_input_min": min(runs_per_input),
        "elapsed_s": loop["elapsed"],
        "raw_op_latency_p50_s": statistics.median(loop["latencies"]),
        "raw_ops_per_s": len(loop["latencies"]) / loop["elapsed"],
    }


# -- traced run -----------------------------------------------------------


def _python(args: List[str]) -> Tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


def import_costs(report: str, packages: Sequence[str]) -> Dict[str, float]:
    """Cumulative import seconds of each package from ``-X importtime``.

    Rows are printed children first, as ``import time: <self us> |
    <cumulative us> | <indent><module>``; a package's cost is the sum of
    the cumulative times of its outermost rows (``pkg`` or ``pkg.*`` rows
    not nested in another row of the same package).
    """
    rows = []
    for text in report.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( +)(\S+)\s*$", text)
        if m:
            rows.append((len(m.group(2)), m.group(3), int(m.group(1))))
    out = {pkg: 0.0 for pkg in packages}
    stack: List[Tuple[int, str]] = []  # enclosing rows, walking outermost first
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in out and not any(n.split(".")[0] == top for _, n in stack):
            out[top] += cumulative / 1e6
        stack.append((depth, name))
    return out


def import_probes() -> Dict[str, float]:
    """Cumulative import time of rhocalc, scipy and numpy, and the wall time
    of a bare interpreter, each the median of a few runs."""
    found: Dict[str, List[float]] = {"rhocalc": [], "scipy": [], "numpy": []}
    bare: List[float] = []
    for _ in range(PROBE_REPEATS):
        _, proc = _python(["-X", "importtime", "-c", "import rhocalc"])
        for pkg, seconds in import_costs(proc.stderr, list(found)).items():
            found[pkg].append(seconds)
        bare.append(_python(["-c", "pass"])[0])
    out = {f"import.{name}_s": statistics.median(v) for name, v in found.items()}
    out["interp.bare_s"] = statistics.median(bare)
    return out


def traced(R, seed: int, seconds: float) -> Dict:
    """Per-layer metrics of every workload, prefixed by the workload name."""
    os.makedirs(OUT_DIR, exist_ok=True)
    share = seconds / len(WORKLOADS)
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    for name in WORKLOADS:
        wl = workloads.make(name, R, seed, ROOT)
        null = NullTracer()
        for op in wl.warm:
            run_op(wl, op, null)
        # the same operations twice: untraced, then traced
        plain = closed_loop(wl, wl.rounds, share / 2, null)
        tracer = Tracer()
        with tracer.span(f"{name}.replay"):
            replay = closed_loop(wl, [plain["ops"]], 0, tracer, limit=len(plain["ops"]))
        extra = {}
        if name == "exact_sweep":
            out = wl.decade_probes(tracer)
            extra = {"ops": [wl.extra], "failed": int(not out.ok)}
        elif name == "cli_oneshot":
            in_process = [op for rnd in wl.rounds[:2] for op in rnd]
            outs = [wl.run_in_process(op, tracer) for op in in_process]
            extra = {"ops": in_process, "failed": sum(not (o.ok or o.known_defect) for o in outs)}
            metrics.update({f"{name}.{k}": v for k, v in import_probes().items()})
        for loop in (plain, replay, extra):
            if loop:
                attempted += len(loop["ops"])
                failed += loop["failed"]
        metrics.update({f"{name}.{k}": v for k, v in tracer.layer_metrics().items()})
        metrics[f"{name}.trace.overhead_ratio"] = plain["elapsed"] / replay["elapsed"]
        tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json.gz"))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    R = load_package()
    if args.mode == "trace":
        print("READY", flush=True)
        result = traced(R, args.seed, args.seconds)
    else:
        wl = workloads.make(args.workload, R, args.seed, ROOT)
        null = NullTracer()
        for op in wl.warm:
            run_op(wl, op, null)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        loop = closed_loop(wl, wl.rounds, args.seconds, null)
        result = summarize(loop, children=args.workload == "cli_oneshot")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 -- report and fail the run
        traceback.print_exc()
        sys.exit(1)
