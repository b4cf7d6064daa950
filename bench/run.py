"""darboux7r benchmark: certify, sweep and synth workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # all three workloads, one after another

Each workload runs in its own fresh interpreter (bench/worker.py) with
numpy's thread pools pinned to one thread; workloads never run at the
same time.  The load is a closed loop with one caller: each item starts
when the previous one ends.

--trace 0 prints the end-to-end metrics, measured with tracing off:

- setup_s: median over 13 fresh interpreters, six before the workload's
  own and six after it, of the time from process start through
  `import darboux7r` and input generation;
- item_p90_ms: 90th percentile of one item's time;
- peak_rss_mb: ru_maxrss of the workload's process;
- pass_ratio: items whose output checks all passed, over items attempted.

It also prints, without a bound, items_per_s (items completed per second
of item time) and item_p50_ms (median item time).  On a host whose speed
swings between fast and slow phases these move with the share of each
phase in a run, more than a bound may allow; the 90th percentile stays in
the slow phase and holds (bench/DESIGN.md).

--trace 1 prints the per-layer metrics of a separate traced run:
`<module>.<function>[.<lane>].self_s` and `.calls` for every traced span
(bench/tracer.py), motionpoly.max_coeff_bits, the finding counts of
workloads.COUNTS, and trace.overhead_s.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it, prefixed "detail ",
holds the input and exact-output digests, the finding counts, the
unbounded metrics, every set-up time and, when traced, the lane shares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "sweep", "synth")
SETUP_RUNS = 6  # set-up-only interpreters before the workload's own, and again after it
TIME_LIMIT_S = 170  # a whole run stays under this
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ALGEBRA_LAYERS = ("motionpoly.", "dualquat.")


class BenchError(RuntimeError):
    pass


def spawn(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    # PYTHONHASHSEED: the same string hashing, so the same dict and set layouts, in every run.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_PINS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(setups: List[float], rep: Dict[str, Any]) -> Dict[str, Any]:
    item_ms = [s * 1000 for s in rep["item_s"]]
    n = len(item_ms)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "item_p90_ms": metric(statistics.quantiles(item_ms, n=10)[-1] if n > 1 else item_ms[0], "ms"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MB"),
        "pass_ratio": metric((n - rep["failed"]) / n, "ratio"),
    }


def unbounded(rep: Dict[str, Any]) -> Dict[str, Any]:
    item_s = rep["item_s"]
    return {
        "items_per_s": metric(len(item_s) / sum(item_s), "1/s"),
        "item_p50_ms": metric(statistics.median(item_s) * 1000, "ms"),
    }


def per_layer(rep: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, (self_s, calls) in rep["spans"].items():
        out[f"{key}.self_s"] = metric(self_s, "s")
        out[f"{key}.calls"] = metric(calls, "count")
    out["motionpoly.max_coeff_bits"] = metric(rep["max_coeff_bits"], "bits")
    for key, n in rep["counts"].items():
        out[key] = metric(n, "count")
    out["trace.overhead_s"] = metric(rep["overhead_s"], "s")
    return out


def lane_shares(spans: Dict[str, List[float]]) -> Dict[str, float]:
    """Shares of all traced self time: exact and float (mixed + float) algebra lanes."""
    total = sum(s for s, _ in spans.values()) or 1.0
    exact = sum(s for k, (s, _) in spans.items() if k.startswith(ALGEBRA_LAYERS) and k.endswith(".exact"))
    floaty = sum(s for k, (s, _) in spans.items()
                 if k.startswith(ALGEBRA_LAYERS) and k.endswith((".mixed", ".float")))
    return {"exact_algebra": exact / total, "float_algebra": floaty / total}


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> Dict[str, Any]:
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
    try:
        n = 0 if trace else SETUP_RUNS
        setups = [spawn([*common, "--setup-only"], deadline)["setup_s"] for _ in range(n)]
        rep = spawn([*common, "--trace", str(trace)], deadline)
        setups.append(rep["setup_s"])
        setups += [spawn([*common, "--setup-only"], deadline)["setup_s"] for _ in range(n)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    detail = {
        "workload": name,
        "seed": seed,
        "attempted": len(rep["item_s"]),
        "input_sha256": rep["input_sha256"],
        "output_sha256": rep["output_sha256"],
        "digest_items": rep["digest_items"],
        "pool_passes": round(rep["pool_passes"], 3),
        "counts": rep["counts"],
        "problems": rep["problems"],
        "digest_problems": rep["digest_problems"],
    }
    if trace:
        detail.update(trace_items=rep["trace_items"], absent=rep["absent"],
                      lane_shares=lane_shares(rep["spans"]))
        metrics = per_layer(rep)
    else:
        metrics = end_to_end(setups, rep)
        detail["unbounded"] = unbounded(rep)
        detail["setup_runs_s"] = setups
    return {
        "correct": rep["failed"] == 0 and not rep["digest_problems"],
        "attempted": len(rep["item_s"]),
        "failed": rep["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "darboux7r" / "__init__.py").is_file():
        print(f"error: no darboux7r sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, res in results.items():
        print(f"{name}: {res['attempted']} items, {res['failed']} failed")
        for key, m in res["metrics"].items():
            print(f"  {key:48s} {m['value']:>14.6g} {m['unit']}")
        for key, m in res["detail"].get("unbounded", {}).items():
            print(f"  {key + ' (not bounded)':48s} {m['value']:>14.6g} {m['unit']}")
    if len(results) == 1:
        (res,) = results.values()
        print("detail " + json.dumps(res["detail"]))
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        print("detail " + json.dumps([r["detail"] for r in results.values()]))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
