"""Checks of the benchmark's output checks and exact-output digests.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# A generic FI+FIII loop whose mobility sample at T_NEAR lies within the
# rank tolerance of a singular posture: sigma_6 / sigma_1 is 7.785e-9 there,
# in floats and in 60 digits alike.
NEAR_SINGULAR = {"type": "FI+FIII", "a": "-1/6", "b": "5", "c": "-3", "x": "-4/3", "y": "-9"}
T_NEAR = -0.5929024680269345
T_GENERIC = 0.25830256873560237


def test_special_families_come_from_the_inputs():
    assert workloads.special_family({"type": "FI+FII", "a": "1", "b": "0", "c": "2"}) == "b=0"
    assert workloads.special_family(
        {"type": "FI+FIII", "a": "1", "b": "3/4", "c": "0", "x": "0", "y": "5/4"}) == "c=x=0"
    assert workloads.special_family(
        {"type": "FI+FIII", "a": "1", "b": "3/4", "c": "0", "x": "1", "y": "5/4"}) is None
    assert workloads.special_family({"type": "FI+FII", "a": "1", "b": "2", "c": "0"}) is None
    assert workloads.special_family({"type": "FIV"}) is None
    assert workloads.special_family(NEAR_SINGULAR) is None


def test_exact_rank():
    assert workloads.exact_rank(NEAR_SINGULAR, T_NEAR) == 5
    assert workloads.exact_rank(NEAR_SINGULAR, T_GENERIC) == 6
    assert workloads.exact_rank({"type": "FIV"}, 0.3) == 5
    assert workloads.exact_rank({"type": "FI+FII", "a": "1", "b": "2", "c": "3"}, 0.7) == 6


def sweep_item(values):
    return workloads.Item(values=dict(values), argvs={})


def mobility_output(rows):
    out = workloads.CliResult(0, "t,rank,dof\n" + "".join(f"{t!r},{7 - d},{d}\n" for t, d in rows), "")
    conic = '{"conic_class": "Ellipse", "plane_ok": true}'
    rows_ok = "t,closure_residual\n" + "0.0,0.0\n" * workloads.SWEEP_SAMPLES
    return {"simulate": workloads.CliResult(0, rows_ok, ""), "mobility": out,
            "trace": workloads.CliResult(0, conic, "")}


def test_a_dof_above_generic_must_be_confirmed_by_the_exact_rank():
    item = sweep_item(NEAR_SINGULAR)
    rest = [(T_GENERIC, 1)] * (workloads.SWEEP_SAMPLES - 1)

    confirmed = workloads.check_sweep(item, mobility_output([(T_NEAR, 2)] + rest), False)
    assert confirmed.problems == []
    assert confirmed.counts["linkage.sample_dof_gt_generic"] == 1

    unconfirmed = workloads.check_sweep(item, mobility_output([(T_GENERIC, 2)] + rest), False)
    assert len(unconfirmed.problems) == 1 and "exact rank" in unconfirmed.problems[0]

    below = workloads.check_sweep(item, mobility_output([(T_GENERIC, 0)] + rest), False)
    assert len(below.problems) == 1 and "below" in below.problems[0]


def test_special_family_rows_above_generic_are_counted():
    item = sweep_item({"type": "FI+FII", "a": "5/7", "b": "0", "c": "-4/9"})
    out = mobility_output([(0.5, 2)] * workloads.SWEEP_SAMPLES)
    outcome = workloads.check_sweep(item, out, False)
    assert outcome.problems == []
    assert outcome.counts["linkage.sample_dof_gt_generic"] == workloads.SWEEP_SAMPLES


def test_recorded_digests_are_compared():
    certify = workloads.WORKLOADS["certify"]
    recorded = worker.EXPECTED_DIGESTS["certify"]["1"]
    full = {"digest_items": certify.digest_items, "output_sha256": recorded}
    assert worker.digest_problems(certify, 1, full) == []
    changed = dict(full, output_sha256="0" * 64)
    assert len(worker.digest_problems(certify, 1, changed)) == 1
    short = dict(changed, digest_items=certify.digest_items - 1)  # a short run: nothing to compare
    assert worker.digest_problems(certify, 1, short) == []
    assert worker.digest_problems(certify, 10**6, changed) == []  # no recorded digest


def test_recorded_digest_of_the_default_seed(tmp_path):
    for name in ("certify", "synth"):
        workload = workloads.WORKLOADS[name]
        pool = workloads.make_pool(workload, 1, workload.digest_items, tmp_path)
        report = worker.run_items(workload, pool, workload.digest_items, None)
        assert report["failed"] == 0
        assert worker.digest_problems(workload, 1, report) == [], name


def test_paused_tracer_records_nothing():
    from darboux7r import darboux

    p = darboux.DarbouxParams(1, 2, 3)
    with tracer.Tracer() as tr:
        with tr.paused():
            darboux.factor_fi(p)
        assert all(calls == 0 for _, calls in tr.stats.values())
        darboux.factor_fi(p)
    assert tr.stats["darboux.factor_fi"][1] == 1
