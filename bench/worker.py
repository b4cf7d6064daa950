"""Run one benchmark workload in this (fresh, single-threaded) interpreter.

Started by run.py; the tests import its helpers.  It imports darboux7r
from the checkout's src/, builds the workload's input pool from the seed,
reports its set-up time (from the moment the parent started this process
through `import darboux7r` and the pool, leaving out the harness's own
imports), then either stops (--setup-only) or runs items and prints one
JSON object describing them as its last line of output.

--trace 0 runs items until --seconds have passed.  --trace 1 runs a fixed
number of items derived from --seconds twice, once plain and once under
the tracer, so the per-span counts repeat exactly for a seed and the
difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import darboux7r  # noqa: E402
import darboux7r.cli  # noqa: E402

IMPORTED_AT = time.monotonic()  # set-up counts no harness import from here on

if not Path(darboux7r.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"darboux7r was imported from {darboux7r.__file__}, not from the checkout's src/")

import tracer  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 3  # failed items described in the report
# output_sha256 of the first digest_items items, by workload and seed.
EXPECTED_DIGESTS = json.loads((Path(__file__).resolve().parent / "expected_output_sha256.json").read_text())
MIN_TRACE_ITEMS = len(workloads.SWEEP_TYPES)  # every sweep loop type, even in short runs


def run_items(workload, pool, count, seconds, untraced=contextlib.nullcontext):
    """Run items in pool order (wrapping around) until `count` items or `seconds` pass.

    The checks run inside `untraced()`, so their own calls into the package
    count in no span.
    """
    item_s, failed, digests, problems = [], 0, [], []
    counts = dict.fromkeys(workloads.COUNTS, 0)
    start = time.perf_counter()
    i = 0
    while i < count if count is not None else time.perf_counter() - start < seconds:
        item = pool[i % len(pool)]
        want_digest = i < workload.digest_items
        t0 = time.perf_counter()
        elapsed = None
        try:
            out = workload.run(item)
            elapsed = time.perf_counter() - t0
            with untraced():
                outcome = workload.check(item, out, want_digest)
        except Exception:  # a crashing item is a failed item; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            outcome = workloads.Outcome([traceback.format_exc(limit=4)])
        item_s.append(elapsed)
        if outcome.problems:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append({"item": i, "values": item.values, "problems": outcome.problems})
        if want_digest and outcome.digest is not None:
            digests.append(outcome.digest)
        for key, n in outcome.counts.items():
            counts[key] += n
        i += 1
    return {
        "item_s": item_s,
        "failed": failed,
        "problems": problems,
        "output_sha256": hashlib.sha256(b"".join(digests)).hexdigest() if workload.digest_items else None,
        "digest_items": len(digests),
        "counts": counts,
        "pool_passes": i / len(pool),
    }


def digest_problems(workload, seed, report):
    """Differences of this run's exact outputs from the recorded ones."""
    expected = EXPECTED_DIGESTS.get(workload.name, {}).get(str(seed))
    # A short run covers fewer items than the recorded digest.
    if expected is None or report["digest_items"] < workload.digest_items:
        return []
    if report["output_sha256"] != expected:
        return [f"output_sha256 {report['output_sha256']} differs from the recorded {expected}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    size = round(workload.pool_per_s * args.seconds)
    t0 = time.monotonic()
    pool = workloads.make_pool(workload, args.seed, size, args.workdir)
    gc.freeze()  # the pool stays out of the collections the measured items trigger
    # Interpreter start and `import darboux7r`, then input generation.
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time compares.
    setup_s = IMPORTED_AT - args.spawned_at + time.monotonic() - t0
    report = {"setup_s": setup_s, "input_sha256": workloads.input_sha256(pool)}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace == 0:
        report.update(run_items(workload, pool, None, args.seconds))
        report["digest_problems"] = digest_problems(workload, args.seed, report)
    else:
        count = max(MIN_TRACE_ITEMS, round(workload.trace_items_per_s * args.seconds))
        run_items(workload, pool[-1:], 1, None)  # first-call costs would fall on the plain pass
        plain = run_items(workload, pool, count, None)
        with tracer.Tracer() as tr:
            traced = run_items(workload, pool, count, None, tr.paused)
        report.update(traced)
        report["failed"] += plain["failed"]
        report["item_s"] = plain["item_s"] + traced["item_s"]
        report["problems"] = plain["problems"] + traced["problems"]
        report["digest_problems"] = digest_problems(workload, args.seed, traced)
        if plain["output_sha256"] != traced["output_sha256"]:
            report["digest_problems"].append(
                f"traced output_sha256 {traced['output_sha256']} differs from the plain pass's"
                f" {plain['output_sha256']}")
        report["trace_items"] = count
        report["overhead_s"] = sum(traced["item_s"]) - sum(plain["item_s"])
        report["spans"] = tr.stats
        report["max_coeff_bits"] = tr.max_coeff_bits
        report["absent"] = tr.absent
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
