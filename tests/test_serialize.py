"""JSON/CSV encoding: exact round-trips and tamper detection."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from darboux7r import (
    DarbouxParams,
    build_linkage,
    factor_fi,
    factor_fiii,
    mobility_at,
    simulate,
    t_grid,
)
from darboux7r.dualquat import AxisLine, DualQuaternion
from darboux7r.motionpoly import MotionPoly
from darboux7r import serialize


PARAMS = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(2, 5))


def random_dq(rng: random.Random) -> DualQuaternion:
    return DualQuaternion.from_coeffs(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    )


def test_scalar_round_trip():
    for v in (Fraction(3, 4), Fraction(-2), 0, 7, 1.5, -0.25):
        encoded = serialize.scalar_to_json(v)
        decoded = serialize.scalar_from_json(encoded)
        assert decoded == v
        if isinstance(v, Fraction):
            assert isinstance(decoded, Fraction)
        if isinstance(v, float):
            assert isinstance(decoded, float)


def test_dq_and_poly_round_trip():
    rng = random.Random(50)
    for _ in range(20):
        h = random_dq(rng)
        assert serialize.dq_from_json(serialize.dq_to_json(h)) == h
    poly = MotionPoly(tuple(random_dq(rng) for _ in range(4)))
    assert serialize.motionpoly_from_json(serialize.motionpoly_to_json(poly)) == poly
    rp = MotionPoly.real((Fraction(1, 3), 0, 2))
    assert serialize.realpoly_to_json(rp) == ["1/3", "0", "2"]
    assert serialize.realpoly_from_json(serialize.realpoly_to_json(rp)) == rp


def test_realpoly_to_json_rejects_a_coefficient_that_is_not_real():
    # The cofactor is written as scalars, so a quaternion part would be lost.
    for coeffs in ([1, 0, 0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]):  # 1 + k, 1 + eps
        poly = MotionPoly((DualQuaternion.from_coeffs(coeffs), DualQuaternion.from_scalar(1)))
        with pytest.raises(ValueError, match="not real"):
            serialize.realpoly_to_json(poly)


def test_axis_json_format():
    ax = AxisLine((Fraction(1, 2), 0, 1), (2, Fraction(-3, 7), Fraction(-1, 4)))
    assert serialize.axis_to_json(ax) == {
        "direction": ["1/2", "0", "1"],
        "moment": ["2", "-3/7", "-1/4"],
    }


def test_factorization_round_trip_is_json_stable():
    f = factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7))
    doc = serialize.factorization_to_json(f)
    text = json.dumps(doc)
    back = serialize.factorization_from_json(json.loads(text))
    assert back.label == f.label
    assert back.params == f.params
    assert back.factors == f.factors
    assert back.cofactor == f.cofactor
    assert back.free_xy == f.free_xy
    assert back.identical_adjacent == f.identical_adjacent
    # stability: encode(decode(x)) == x
    assert serialize.factorization_to_json(back) == doc


def test_tampered_factorization_fails_verification():
    f = factor_fi(PARAMS)
    doc = serialize.factorization_to_json(f)
    doc["factors"][0][0][5] = "9/2"  # corrupt one dual coefficient
    bad = serialize.factorization_from_json(doc)
    assert bad.product() != bad.cofactor * bad.target()
    assert f.product() == f.cofactor * f.target()


def test_linkage_json_certificate_matches_both_chains():
    l = build_linkage(factor_fi(PARAMS), factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))
    doc = serialize.linkage_to_json(l)
    assert doc["joint_count"] == 7
    assert len(doc["joints"]) == 7
    # the certificate is over the common motion, so either chain reproduces it
    common_a = l.chain_a.product() * l.chain_b.cofactor
    common_b = l.chain_b.product() * l.chain_a.cofactor
    assert common_a == common_b
    payload = json.dumps(serialize.motionpoly_to_json(common_b), separators=(",", ":"))
    import hashlib

    assert doc["closure_certificate_sha256"] == hashlib.sha256(payload.encode()).hexdigest()


def test_samples_csv_shape():
    l = build_linkage(factor_fi(PARAMS), factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))
    rows = serialize.samples_to_csv(simulate(l, t_grid(5))).strip().split("\n")
    assert len(rows) == 6
    header = rows[0].split(",")
    assert header[0] == "t"
    assert header[1:8] == [f"theta{i}" for i in range(1, 8)]
    assert header[8:16] == [f"coupler_h{i}" for i in range(8)]
    assert header[16] == "closure_residual"
    for row in rows[1:]:
        assert len(row.split(",")) == 17


def test_mobility_csv_shape():
    l = build_linkage(factor_fi(PARAMS), factor_fiii(PARAMS, Fraction(1, 3), Fraction(-2, 7)))
    reports = [mobility_at(l, t) for t in (0.25, 0.5)]
    rows = serialize.mobility_to_csv(reports).strip().split("\n")
    assert rows[0].split(",")[:3] == ["t", "rank", "dof"]
    assert len(rows) == 3
    assert rows[1].split(",")[2] == "1"
