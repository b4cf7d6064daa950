"""Acceptance checks: every stated requirement, one pass/fail line each.

Each criterion is one test; `pytest -v` therefore emits one PASSED/FAILED
line per criterion, and each test also prints an explicit PASS line (shown
under -s) naming what was established at which tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from darboux7r import (
    DarbouxParams,
    DualQuaternion,
    MotionPoly,
    NonGeneric,
    build_linkage,
    circular_translation_check,
    closes_exactly,
    darboux_c,
    darboux_c0,
    derive_fiii,
    factor_fi,
    factor_fii,
    factor_fiii,
    factor_fiv,
    fiv_companion_fi,
    mobility_at,
    parallel_groups,
    right_factor_from_quadratic,
    simulate,
    substructure_report,
    t_grid,
    t_squared_plus_one,
    trace_point,
)
from darboux7r import NotADivisor
from darboux7r.conics import ConicClass
from darboux7r.dualquat import Quaternion


def dq(h0=0, h1=0, h2=0, h3=0, h4=0, h5=0, h6=0, h7=0) -> DualQuaternion:
    return DualQuaternion.from_coeffs([h0, h1, h2, h3, h4, h5, h6, h7])


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_params(rng: random.Random) -> DarbouxParams:
    a = rational(rng)
    while a == 0:
        a = rational(rng)
    return DarbouxParams(a, rational(rng), rational(rng))


def random_fiii_args(rng: random.Random):
    while True:
        p = random_params(rng)
        x, y = rational(rng), rational(rng)
        T = p.a + 2 * y
        if T * T + 4 * x * x != 0 and p.b * p.b + p.c * p.c + T * T + 4 * x * x != 0:
            return p, x, y


GENERIC = DarbouxParams(Fraction(3, 2), Fraction(-1), Fraction(2, 5))
GENERIC_XY = (Fraction(1, 3), Fraction(-2, 7))


def test_c01_fi_product_equals_c_exactly_100_random():
    rng = random.Random(101)
    for _ in range(100):
        p = random_params(rng)
        assert factor_fi(p).product() == darboux_c(p)
    print("PASS: FI product = C coefficient-exact for 100 random rational (a,b,c)")


def test_c02_fii_product_equals_p_times_c_exactly_100_random():
    rng = random.Random(102)
    P = t_squared_plus_one()
    for _ in range(100):
        p = random_params(rng)
        assert factor_fii(p).product() == P * darboux_c(p)
    print("PASS: FII product = (t^2+1)*C coefficient-exact for 100 random rational (a,b,c)")


def test_c03_fiii_product_exact_and_transcription_matches_division():
    rng = random.Random(103)
    P = t_squared_plus_one()
    for _ in range(100):
        p, x, y = random_fiii_args(rng)
        f = factor_fiii(p, x, y)  # its leftmost factor comes from exact division
        assert f.product() == P * darboux_c(p)
        d = derive_fiii(p, x, y)  # everything re-derived by division + conditions
        assert f.factors[1] == d.factors[1]  # transcribed middle factors agree
        assert f.factors[2] == d.factors[2]
        assert f.factors == d.factors
    print(
        "PASS: FIII product = (t^2+1)*C exact for 100 random (a,b,c,x,y); "
        "transcribed middle factors match the division-derived values exactly"
    )


def test_c04_fiv_anchor_reproduces_printed_values():
    f45, f35, f32, f52 = Fraction(4, 5), Fraction(3, 5), Fraction(3, 2), Fraction(5, 2)
    printed_fi = (
        MotionPoly.t_minus(dq(h2=-f45, h3=f35, h6=f32, h7=2)),
        MotionPoly.t_minus(dq(h2=f45, h3=-f35)),
        MotionPoly.t_minus(dq(h3=1, h6=-f52)),
    )
    printed_fiii = (
        MotionPoly.t_minus(dq(h2=f45, h3=-f35, h6=f32, h7=2)),
        MotionPoly.t_minus(dq(h2=-f45, h3=f35)),
        MotionPoly.t_minus(dq(h3=-1, h6=-f52)),
        MotionPoly.t_minus(dq(h3=1)),
        MotionPoly.t_minus(dq(h3=1)),
    )
    assert factor_fi(DarbouxParams(1, 2, 0)).factors == printed_fi
    assert fiv_companion_fi().factors == printed_fi
    assert factor_fiii(DarbouxParams(1, 2, 0), 0, 0).factors == printed_fiii
    assert factor_fiv().factors == printed_fiii
    print("PASS: FIV anchor instance reproduces all seven printed factors exactly")


def test_c05_generic_algorithm_obstruction_and_success():
    rng = random.Random(105)
    P = t_squared_plus_one()
    for _ in range(20):
        p = random_params(rng)
        try:
            right_factor_from_quadratic(darboux_c(p), P)
            raise AssertionError("expected NonGeneric for the Darboux cubic")
        except NonGeneric:
            pass

    def rotation_root() -> DualQuaternion:
        while True:
            pvec = Quaternion(0, rational(rng), rational(rng), rational(rng))
            if pvec.norm() == 0:
                continue
            m = Quaternion(0, rational(rng), rational(rng), rational(rng))
            d = m - pvec.scale(Fraction(pvec.dot(m), pvec.norm()))
            return DualQuaternion(pvec, d)

    successes = 0
    while successes < 20:
        h1, h2 = rotation_root(), rotation_root()
        C = MotionPoly.t_minus(h1) * MotionPoly.t_minus(h2)
        M = MotionPoly.real((h2.p.norm(), 0, 1))  # t^2 + |h2|^2
        assert MotionPoly.t_minus(h2).norm_poly() == M
        try:
            h = right_factor_from_quadratic(C, M)
        except (NonGeneric, NotADivisor):
            continue
        factor = MotionPoly.t_minus(h)
        assert factor.norm_poly() == M
        _, rem = C.divmod_right(factor)
        assert rem.degree < 0
        successes += 1
    print(
        "PASS: right factor extraction raises NonGeneric on 20 random Darboux cubics "
        "and succeeds with exact postconditions on 20 generic quadratic products"
    )


def test_c06_norm_of_c_is_p_cubed_with_zero_dual():
    rng = random.Random(106)
    P = t_squared_plus_one()
    cube = P * P * P
    for _ in range(50):
        p = random_params(rng)
        norm = darboux_c(p).norm_poly()
        for coeff in norm.coeffs:
            assert coeff.d == Quaternion(0, 0, 0, 0)
        assert norm == cube
    print("PASS: Norm(C) = (t^2+1)^3 exactly with identically zero dual part")


def test_c07_circular_translation_condition():
    rng = random.Random(107)
    for _ in range(5):
        p = random_params(rng)
        rep = circular_translation_check(p)
        assert rep.quotient_primal_ok
        assert rep.circularity == (0, 0)
        assert rep.perturbed_circularity != (0, 0)
    print(
        "PASS: C / Q3 is a circular translation exactly (d1.d0 = 0, |d1|^2 = |d0|^2); "
        "perturbing w by 1 breaks circularity exactly"
    )


def test_c08_coupler_paths_planar_ellipses():
    rng = random.Random(108)
    linkage = build_linkage(factor_fi(GENERIC), factor_fiii(GENERIC, *GENERIC_XY))
    ts = (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(9, 4))
    for _ in range(20):
        pt = tuple(rational(rng) for _ in range(3))
        rep = trace_point(linkage, pt, t_grid(20))
        assert rep.conic_class is ConicClass.ELLIPSE
        for t in ts:
            cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
            want = linkage.product_a.eval(t).act((1, *pt))[1:]
            got = tuple(m + u * cos + v * sin for m, u, v in zip(rep.mean, rep.cos, rep.sin))
            assert got == want
    print(
        "PASS: 20 random rational coupler points: each orbit is exactly "
        "M + U cos(phi) + V sin(phi) with U x V != 0 (class Ellipse), equal to "
        "the coupler's action at 4 rational t"
    )


def test_c09_closure_exact_and_float():
    rng = random.Random(109)
    l13 = build_linkage(factor_fi(GENERIC), factor_fiii(GENERIC, *GENERIC_XY))
    l12 = build_linkage(factor_fi(GENERIC), factor_fii(GENERIC))
    ts = [rational(rng) for _ in range(50)]
    for linkage in (l13, l12):
        assert all(closes_exactly(linkage, t) for t in ts)
        assert simulate(linkage, [float(t) for t in ts]).closure_residual.max() < 1e-12
    print(
        "PASS: FI+FIII and FI+FII close at 50 random t, exactly over rationals "
        "and below 1e-12 in floats"
    )


def test_c10_mobility_dofs_at_generic_samples():
    rng = random.Random(110)
    l13 = build_linkage(factor_fi(GENERIC), factor_fiii(GENERIC, *GENERIC_XY))
    l4 = build_linkage(fiv_companion_fi(), factor_fiv())
    for _ in range(10):
        t = math.tan(rng.uniform(-math.pi, math.pi) / 2)
        assert mobility_at(l13, t).dof == 1
        assert mobility_at(l4, t).dof == 2
    print(
        "PASS: at 10 generic samples, FI+FIII has dof 1 and FIV has dof 2 "
        "(rank tolerance 1e-8)"
    )


def test_c11_parallel_groups_and_substructure():
    l4 = build_linkage(fiv_companion_fi(), factor_fiv())
    assert parallel_groups(l4) == ((1, 2, 6, 7), (3, 4, 5))
    rep = substructure_report(l4)
    assert rep.has_four_bar
    assert rep.has_sarrus

    l12 = build_linkage(factor_fi(GENERIC), factor_fii(GENERIC))
    assert parallel_groups(l12) == ((1, 2), (3, 4), (5, 6, 7))

    l13 = build_linkage(factor_fi(GENERIC), factor_fiii(GENERIC, *GENERIC_XY))
    assert parallel_groups(l13) == ((1, 2), (3, 4, 5), (6, 7))
    print(
        "PASS: FIV groups {1,2,6,7},{3,4,5} with 4-bar and Sarrus flags; "
        "FI+FII groups {1,2},{3,4},{5,6,7}; FI+FIII groups {1,2},{3,4,5},{6,7}"
    )


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=30, deadline=None)
@given(small_rationals.filter(lambda v: v != 0), small_rationals, small_rationals,
       st.tuples(small_rationals, small_rationals, small_rationals))
def test_c12_action_matches_parametric_equations(a, b, c, point):
    x, y, z = point
    rep = trace_point(darboux_c0(DarbouxParams(a, b, c)), point, t_grid(9))
    assert (rep.mean, rep.cos, rep.sin) == ((0, 0, z + c), (x, y, -c), (-y, x + a, b))
    print(
        "PASS: the orbit of (x, y, z) along C0 (C with its frame change) is exactly "
        "(0, 0, z + c) + (x, y, -c) cos(phi) + (-y, x + a, b) sin(phi)"
    )
