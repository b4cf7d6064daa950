"""Checks of the benchmark's traced run and of its metric names.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Span key -> the workload whose items must reach it (the layer table of
# bench/DESIGN.md, at the span level).
STRESSED_BY = {
    "cli.main": "certify",
    "darboux.factor_fi": "certify",
    "darboux.factor_fii": "certify",
    "darboux.factor_fiii": "certify",
    "darboux.derive_fi": "certify",
    "darboux.derive_fiii": "certify",
    "motionpoly.mul.exact": "certify",
    "motionpoly.divmod_right.exact": "certify",
    "motionpoly.eval.mixed": "sweep",
    "motionpoly.eval.float": "sweep",
    "dualquat.mul.exact": "certify",
    "dualquat.mul.mixed": "sweep",
    "dualquat.act.mixed": "sweep",
    "dualquat.act.float": "sweep",
    "dualquat.transform_axis.mixed": "sweep",
    "linkage.build_linkage": "sweep",
    "linkage.simulate": "sweep",
    "linkage.mobility_at": "sweep",
    "linkage.trace_point": "sweep",
    "linkage.axes_at": "sweep",
    "linkage.substructure_report": "synth",
    "conics.trace_fit": "sweep",
    "serialize.samples_to_csv": "sweep",
    "serialize.mobility_to_csv": "sweep",
    "serialize.linkage_to_json": "synth",
    "serialize.factorization_from_json": "synth",
    "serialize.trajectory_to_json": "synth",
    "serialize.dump_json": "synth",
    "svgplot.render_linkage": "synth",
}


def attribute_restored(owner, name, original, own) -> bool:
    if own:
        return vars(owner).get(name) is original
    return name not in vars(owner)


def test_every_span_has_a_stressing_workload():
    def base(key):
        head, _, lane = key.rpartition(".")
        return head if lane in tracer.LANES else key

    assert {span for _, _, span, _ in tracer.TARGETS} == {base(k) for k in STRESSED_BY}


def test_every_layer_reached_and_originals_restored(tmp_path):
    for name in run.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        (item,) = workloads.make_pool(workload, 7, 1, tmp_path)
        with tracer.Tracer() as tr:
            patched = list(tr.patched)
            outcome = workload.check(item, workload.run(item), True)
        assert outcome.problems == []
        assert tr.absent == []
        assert patched, "nothing was wrapped"
        for owner, attr, original, own in patched:
            assert attribute_restored(owner, attr, original, own), (owner, attr)
        for key, stressed in STRESSED_BY.items():
            if stressed == name:
                assert tr.stats[key][1] > 0, f"{key} not called on {name}"
        if name == "certify":
            assert tr.max_coeff_bits > 0


def test_from_imported_names_are_wrapped_too():
    import darboux7r
    from darboux7r import cli, linkage, svgplot

    def bound():
        return (linkage.transform_axis, svgplot.axes_at, cli.build_linkage, cli.simulate,
                cli.mobility_at, cli.trace_point, darboux7r.factor_fi)

    originals = bound()
    with tracer.Tracer():
        assert all(f.__wrapped__ is g for f, g in zip(bound(), originals))
    assert bound() == originals


def test_absent_targets_are_reported_not_fatal(monkeypatch):
    missing = (
        ("darboux7r.linkage", "no_such_function", "linkage.no_such_function", False),
        ("darboux7r.no_such_module", "f", "no_such_module.f", False),
        ("darboux7r.motionpoly", "MotionPoly.no_such_method", "motionpoly.no_such_method", True),
    )
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + missing)
    with tracer.Tracer() as tr:
        pass
    assert tr.absent == [span for _, _, span, _ in missing]
    assert tr.patched == []


def test_lanes():
    from fractions import Fraction

    from darboux7r import DualQuaternion

    exact = DualQuaternion.from_coeffs([1, 0, Fraction(1, 2), 0, 0, 0, 0, 0])
    floating = exact.to_float()
    assert tracer.lane_of((exact, exact)) == "exact"
    assert tracer.lane_of((floating, 0.5)) == "float"
    assert tracer.lane_of((exact, 0.5)) == "mixed"
    assert tracer.lane_of((exact, (1.0, Fraction(1), 0, 0))) == "mixed"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "spans": tracer.Tracer().stats,
        "max_coeff_bits": 0,
        "counts": dict.fromkeys(workloads.COUNTS, 0),
        "overhead_s": 0.0,
        "item_s": [0.1, 0.2],
        "failed": 0,
        "peak_rss_mb": 1.0,
    }
    layer = run.per_layer(report)
    e2e = run.end_to_end([0.3], report)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    for section, produced in (("per_layer", layer), ("end_to_end", e2e)):
        for m in spec[section]:
            assert m["unit"] == produced[m["name"]]["unit"], m["name"]


def test_inputs_repeat_for_a_seed(tmp_path):
    for workload in workloads.WORKLOADS.values():
        first = workloads.input_sha256(workloads.make_pool(workload, 3, 20, tmp_path))
        again = workloads.input_sha256(workloads.make_pool(workload, 3, 20, tmp_path))
        other = workloads.input_sha256(workloads.make_pool(workload, 4, 20, tmp_path))
        assert first == again != other

